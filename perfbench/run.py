#!/usr/bin/env python3
"""pnma benchmark: end-to-end metrics per workload, per-layer times when traced.

    python3 perfbench/run.py --workload adapt --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the package is imported from ``src/``.  Each
workload runs in its own process (``all`` starts one child per workload, one
after the other).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller record
(machine, working sets, checks, digests, F1) goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json`` and, when traced, the
spans to ``perfbench/out/spans-<workload>-seed<seed>.json``.
"""

import os

# one BLAS thread: load comes from this process alone, and no BLAS pool
# outlives its workload
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("adapt", "base-train", "tag")
SETUP_MIN_REPS = 3
SETUP_SECONDS_PER_JOB = 1.0  # a set-up cheaper than this is repeated before each job


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def machine() -> dict:
    from pnma.config import TrainConfig

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "pnma_threads": TrainConfig().threads,
        "caches": caches,
        "timing": "Process-local only: perf_counter and getrusage inside the benchmark "
                  "process; no system-wide tracing or hardware counters.",
    }


def code_digest() -> str:
    """Identity of the code under test plus the benchmark that feeds it."""
    h = hashlib.sha256()
    for path in sorted(ROOT.glob("src/pnma/*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_determinism(checks, name: str, seed: int, record: dict) -> None:
    """Digests and F1 must repeat across runs of the same code and seed."""
    path = OUT / f"digests-{name}-seed{seed}.json"
    code = code_digest()
    if path.exists():
        stored = json.loads(path.read_text())
        if stored["code"] == code:
            for key, value in record.items():
                checks.expect(stored["record"].get(key, value) == value,
                              f"{name}: {key} differs from an earlier run of this code and seed")
            return
    path.write_text(json.dumps({"code": code, "record": record}, indent=1, sort_keys=True))


def percentile(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracer import StepClock, Tracer

    wl = workloads.WORKLOADS[name]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    checks = workloads.Checks()
    run = workloads.Run(seed=seed, workdir=str(workdir), checks=checks, clock=StepClock())
    setup_times: list[float] = []
    jobs = []
    steps: list[float] = []
    untraced_wall_s = None

    def untraced_job(state):
        """One job with tracing off; its steps (requests or optimizer updates) go to ``steps``."""
        with run.clock.installed():
            job = wl.job(run, state)
        steps.extend(job.steps_ms or run.clock.take())
        return job

    try:
        if trace:
            run.tracer = Tracer()
            started = time.perf_counter()
            with run.tracer.installed():
                state = wl.setup(run)
            setup_times.append(time.perf_counter() - started)
            reference = untraced_job(state)
            with run.tracer.installed():
                jobs.append(wl.job(run, state))
            checks.expect(jobs[0].digests == reference.digests,
                          f"{name}: the traced job's digests differ from the untraced job's")
            untraced_wall_s = reference.wall_s
        else:
            state = None
            loop_started = None
            while True:
                # cheap set-ups are timed again between jobs, so their median spans the run
                while (len(setup_times) < SETUP_MIN_REPS
                       or sum(setup_times) < SETUP_SECONDS_PER_JOB * (len(jobs) + 1)):
                    previous, state = state, None  # free the last set-up before building the next
                    started = time.perf_counter()
                    state = wl.setup(run)
                    setup_times.append(time.perf_counter() - started)
                    if previous is not None:
                        checks.expect(state["digests"] == previous["digests"],
                                      f"{name}: set-up digests differ between set-ups")
                if loop_started is None:
                    loop_started = time.perf_counter()
                elif (time.perf_counter() - loop_started
                      + statistics.median(j.wall_s for j in jobs) > seconds):
                    break
                job = untraced_job(state)
                if jobs:
                    checks.expect(job.digests == jobs[0].digests,
                                  f"{name}: job digests differ between jobs")
                jobs.append(job)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = jobs[0]
    record = dict(state["digests"], **first.digests, f1_base=repr(first.f1_base),
                  f1_adapted=repr(first.f1_adapted))
    check_determinism(checks, name, seed, record)

    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine(),
        "working_set": working_set(run.working_set),
        "setup_reps": len(setup_times),
        "jobs": len(jobs),
        "step_samples": len(steps),
        "step_p50_ms": percentile(steps, 50),
        "step_p95_ms": percentile(steps, 95),
        "f1_base": first.f1_base,
        "f1_adapted": first.f1_adapted,
        "digests": record,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_ratio": checks.failed / max(checks.attempted, 1),
        "failures": checks.failures[:50],
    }
    if trace:
        layers = run.tracer.layer_metrics()
        layers["analysis.f1_base"] = first.f1_base
        layers["analysis.f1_adapted"] = first.f1_adapted or 0.0
        layers["e2e.step_p50_ms"] = result["step_p50_ms"]
        layers["e2e.step_p95_ms"] = result["step_p95_ms"]
        layers["trace.overhead_ratio"] = first.wall_s / untraced_wall_s
        result["untraced_wall_s"] = untraced_wall_s
        result["metrics"] = {k: {"value": layers[k], "unit": u} for k, u in metric_units()[1].items()}
        run.tracer.write(str(OUT / f"spans-{name}-seed{seed}.json"))
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(j.wall_s for j in jobs),
            "tok_per_s": statistics.median(j.tok_per_s for j in jobs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in metric_units()[0].items()}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def working_set(ws: dict) -> dict:
    """Memory and K-NN block bytes, to set against the cache sizes in ``machine``."""
    from pnma import memory

    q_block = getattr(memory, "_QUERY_BLOCK", None)
    n_block = getattr(memory, "_ENTRY_BLOCK", None)
    if ws.get("memory_entries") and q_block and n_block:
        ws["knn_block_float64_bytes"] = q_block * min(n_block, ws["memory_entries"]) * ws["d"] * 8
    return ws


def print_summary(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:<11} {metric:<34} {m['value']:>16.6f} {m['unit']}")
    for key in ("step_p50_ms", "step_p95_ms"):
        print(f"{name:<11} {key:<34} {result[key]:>16.6f} ms")
    print(f"{name:<11} {'f1_base':<34} {result['f1_base']:>16.6f} F1")
    if result["f1_adapted"] is not None:
        print(f"{name:<11} {'f1_adapted':<34} {result['f1_adapted']:>16.6f} F1")
    print(f"{name:<11} {'failed_ratio':<34} {result['failed_ratio']:>16.6f} "
          f"({result['failed']} of {result['attempted']})")
    print(f"{name:<11} {'samples':<34} setup {result['setup_reps']}, jobs {result['jobs']}, "
          f"steps {result['step_samples']}")
    for failure in result["failures"]:
        print(f"{name:<11} FAILED: {failure}")


def run_all(args) -> int:
    """Each workload in a child process of its own, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        merged["correct"] &= child["correct"]
        merged["attempted"] += child["attempted"]
        merged["failed"] += child["failed"]
        merged["metrics"] |= {f"{name}.{k}": v for k, v in child["metrics"].items()}
    print(json.dumps(merged))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=NAMES + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "pnma" / "__init__.py").is_file():
        print(f"perfbench: no pnma package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(args.workload, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
